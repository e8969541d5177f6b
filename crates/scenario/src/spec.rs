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

use dsm_core::{Program, Protocol, RegionPolicy, GRANULARITIES};
use dsm_json::Value;

use dsm_apps::{build_app, AppSize};

use crate::run::{fabric_arg, RunSpec, MAX_NODES};

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
    /// The run every repetition makes: repetition `r` is this run with the
    /// seed `seeds.seed_for(r)` (parsing sets the first repetition's). The
    /// plan's `"mode"` is its protocol, block and regions (`"fixed"` when
    /// there are none, `"mixed"` when there are some); its `"app"`,
    /// `"nodes"`, `"fabric"`, `"check"`, `"spans"` and `"notify"` are the
    /// run's own.
    pub run: RunSpec,
    /// `"mode": {"kind": "adaptive"}`: the adaptive planner profiles each
    /// repetition's program (the seed reshapes it) and writes its plan into
    /// the repetition's run ([`RunSpec::adapt`]).
    pub adaptive: bool,
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

/// An object's keys are among `keys`.
fn known(fields: &[(String, Value)], keys: &[&str], ctx: &str) -> Result<(), String> {
    match fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("{ctx}: unknown key {k:?}")),
        None => Ok(()),
    }
}

/// The plan's `key` read by `get`, or `default` when the plan leaves it out.
fn field<'a, T>(
    v: &'a Value,
    key: &str,
    get: fn(&'a Value) -> Option<T>,
    what: &str,
    default: T,
) -> Result<T, String> {
    v.get(key).map_or(Ok(default), |x| {
        get(x).ok_or_else(|| format!("scenario: \"{key}\" must be {what}"))
    })
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
        known(rfields, &["name", "protocol", "block"], &ctx)?;
        let get = |key: &str| r.get(key).ok_or_else(|| format!("{ctx}: missing {key}"));
        let name = get("name")?
            .as_str()
            .ok_or_else(|| format!("{ctx}: missing name"))?;
        let protocol = proto_of(get("protocol")?, &ctx)?;
        let block = block_of(get("block")?, &ctx)?;
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
        const KNOWN: [&str; 12] = [
            "schema", "name", "app", "nodes", "mode", "fabric", "check", "spans", "notify", "reps",
            "seed", "seeds",
        ];
        known(fields, &KNOWN, "scenario")?;
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
            a @ Value::Obj(afields) => {
                known(afields, &["name", "size", "params"], "scenario app")?;
                let size = match a.get("size").and_then(Value::as_str) {
                    None | Some("small") => AppSize::Small,
                    Some("standard") => AppSize::Standard,
                    Some(other) => {
                        return Err(format!(
                            "scenario app: size must be \"small\" or \"standard\", got {other:?}"
                        ))
                    }
                };
                let params = match a.get("params") {
                    None => Vec::new(),
                    Some(Value::Obj(pf)) => pf
                        .iter()
                        .map(|(k, pv)| {
                            pv.as_u64().map(|n| (k.clone(), n)).ok_or_else(|| {
                                format!("scenario app param {k:?}: must be a non-negative integer")
                            })
                        })
                        .collect::<Result<_, _>>()?,
                    Some(_) => return Err("scenario app: \"params\" must be an object".into()),
                };
                let aname = a.get("name").and_then(Value::as_str);
                AppSpec {
                    name: aname.ok_or("scenario app: missing \"name\"")?.to_string(),
                    size,
                    params,
                }
            }
            _ => return Err("scenario: \"app\" must be a string or object".to_string()),
        };

        let nodes = field(v, "nodes", Value::as_u64, "an integer", 16)? as usize;
        if !(1..=MAX_NODES).contains(&nodes) {
            return Err(format!(
                "scenario: nodes {nodes} out of range 1..={MAX_NODES}"
            ));
        }

        let Some(m @ Value::Obj(mfields)) = v.get("mode") else {
            return Err(match v.get("mode") {
                None => "scenario: missing \"mode\"",
                Some(_) => "scenario: \"mode\" must be an object",
            }
            .to_string());
        };
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
        let adaptive = kind == "adaptive";
        // The planner's base under the adaptive mode: it reads the nodes and
        // costs only.
        let (protocol, block, regions) = if adaptive {
            (Protocol::Sc, 4096, Vec::new())
        } else {
            let get =
                |key: &str| (m.get(key)).ok_or_else(|| format!("scenario mode: missing {key}"));
            (
                proto_of(get("protocol")?, "scenario mode")?,
                block_of(get("block")?, "scenario mode")?,
                match kind {
                    "mixed" => regions_of(m.get("regions").unwrap_or(&Value::Null))?,
                    _ => Vec::new(),
                },
            )
        };

        let fabric = field(v, "fabric", Value::as_str, "a spec string", "ideal")?;
        let fabric = fabric_arg(fabric).map_err(|e| format!("scenario fabric: {e}"))?;
        let notify = field(v, "notify", Value::as_str, "a string", "polling")?;
        let notify = notify.parse().map_err(|e| format!("scenario: {e}"))?;

        let reps = field(v, "reps", Value::as_u64, "an integer", 1)? as usize;
        if reps < 1 {
            return Err("scenario: reps must be >= 1".to_string());
        }
        let seeds = match (v.get("seed"), v.get("seeds")) {
            (Some(_), Some(_)) => {
                return Err("scenario: give either \"seed\" or \"seeds\", not both".to_string())
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
            _ => SeedSeq::Base(field(v, "seed", Value::as_u64, "an integer", 1)?),
        };

        let run = RunSpec {
            app,
            seed: seeds.seed_for(0),
            regions,
            notify,
            nodes,
            fabric,
            check: field(v, "check", Value::as_bool, "a bool", false)?,
            spans: field(v, "spans", Value::as_bool, "a bool", false)?,
            ..RunSpec::new("", protocol, block)
        };
        // The application, its parameters and the region names are checked
        // here, so a plan that would panic, truncate or name a region its
        // program lacks fails before anything runs. Construction is cheap:
        // nothing is generated until the first run.
        run.program().map_err(|e| format!("scenario {e}"))?;
        Ok(ScenarioSpec {
            name,
            run,
            adaptive,
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
        let run = &self.run;
        let mut app = Value::obj();
        app.set("name", run.app.name.as_str());
        app.set(
            "size",
            if run.app.size == AppSize::Small {
                "small"
            } else {
                "standard"
            },
        );
        if !run.app.params.is_empty() {
            let mut p = Value::obj();
            for (k, val) in &run.app.params {
                p.set(k, *val);
            }
            app.set("params", p);
        }
        v.set("app", app);
        v.set("nodes", run.nodes);
        let mut mode = Value::obj();
        if self.adaptive {
            mode.set("kind", "adaptive");
        } else {
            let regions = &run.regions;
            mode.set("kind", if regions.is_empty() { "fixed" } else { "mixed" });
            mode.set("protocol", run.protocol.name().to_lowercase());
            mode.set("block", run.block);
            if !regions.is_empty() {
                mode.set(
                    "regions",
                    Value::Arr(regions.iter().map(policy_json).collect()),
                );
            }
        }
        v.set("mode", mode);
        v.set("fabric", run.fabric.as_str());
        v.set("check", run.check);
        v.set("spans", run.spans);
        v.set("notify", run.notify.name());
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
        assert_eq!(s.run.app.name, "lu");
        assert_eq!(s.run.app.size, AppSize::Small);
        assert_eq!(s.run.nodes, 16);
        assert_eq!(s.run.fabric, "ideal");
        assert!(!s.run.check);
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
            // A region is one the program is carved into, so a repetition's
            // run line replays: a mistyped name is not run unapplied.
            (
                r#"{"name":"x","app":"kv-zipf","mode":{"kind":"mixed","protocol":"hlrc","block":4096,"regions":[{"name":"vals","protocol":"sc","block":64}]}}"#,
                "region=vals:sc@64: no such region (one of: ",
            ),
            (
                r#"{"name":"x","app":"kv-zipf","mode":{"kind":"mixed","protocol":"hlrc","block":4096,"regions":[{"name":"a b","protocol":"sc","block":64}]}}"#,
                "no such region",
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
