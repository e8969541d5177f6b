//! The one table of applications: the paper's twelve kernels and the three
//! modern workloads, each with its shape at the standard (benchmark) and
//! small (test) problem sizes and its constructor. Every way of naming an
//! application — [`app_sized`], [`app`], [`build_app`], the name lists, the
//! tools' arguments and the scenario engine's `AppSpec` — reads `APPS`.

use std::sync::Arc;

use dsm_core::Program;

use crate::barnes::{Barnes, BarnesVariant};
use crate::drf::RandomDrf;
use crate::fft::Fft;
use crate::graph::PageRank;
use crate::kvstore::KvZipf;
use crate::lu::Lu;
use crate::ocean::{OceanOriginal, OceanRowwise};
use crate::raytrace::Raytrace;
use crate::volrend::{VolrendOriginal, VolrendRowwise};
use crate::water_nsq::WaterNsq;
use crate::water_spatial::WaterSpatial;

/// Problem-size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSize {
    /// Benchmark sizes: scaled down from the paper's so a full protocol ×
    /// granularity sweep completes in minutes of real time, but large
    /// enough that the sharing patterns dominate.
    Standard,
    /// Small sizes for the test suite.
    Small,
}

/// Where an application comes from.
#[derive(Clone, Copy)]
enum Family {
    /// One of the paper's twelve kernels: a fixed problem at each size,
    /// which ignores the seed. A plan may override its shape parameters.
    Paper,
    /// A modern workload of the scenario engine: the seed reshapes it, and a
    /// plan may override any of its parameters.
    Modern,
}

/// One build's parameter values, in the table's order.
struct Args<'a> {
    params: &'static [(&'static str, u64, u64)],
    values: &'a [u64],
}

impl Args<'_> {
    /// Parameter `i` as the type its constructor takes, or an error naming it.
    fn get<T: TryFrom<u64>>(&self, i: usize) -> Result<T, String> {
        let v = self.values[i];
        T::try_from(v).map_err(|_| {
            format!(
                "parameter {:?} = {v} does not fit in {}",
                self.params[i].0,
                std::any::type_name::<T>()
            )
        })
    }
}

/// One registered application.
struct AppEntry {
    /// Registry name.
    name: &'static str,
    /// Paper kernel or modern workload.
    family: Family,
    /// Shape parameters in constructor order: `(name, standard default,
    /// small default)`.
    params: &'static [(&'static str, u64, u64)],
    /// The constructor, from the seed and the parameter values; an error for
    /// a value outside its range (the modern workloads' `try_new`).
    make: fn(u64, &Args<'_>) -> Result<Program, String>,
}

/// `Ok` when a kernel constructor's precondition `holds`, else `what` it
/// requires as an error: a shape a constructor would assert on is refused
/// here instead.
fn require(holds: bool, what: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("the shape requires {what}"))
    }
}

/// A Barnes-Hut variant from its `(n, steps)`.
fn barnes(a: &Args<'_>, variant: BarnesVariant) -> Result<Program, String> {
    Ok(Arc::new(Barnes::new(a.get(0)?, a.get(1)?, variant)))
}

/// Every application: the paper's twelve kernels in its presentation order,
/// then the modern workloads.
const APPS: [AppEntry; 15] = [
    AppEntry {
        name: "lu",
        family: Family::Paper,
        params: &[("n", 512, 64), ("b", 16, 8)],
        make: |_, a| {
            let (n, b): (usize, usize) = (a.get(0)?, a.get(1)?);
            require(n.is_multiple_of(b), "b to divide n")?;
            Ok(Arc::new(Lu::new(n, b)))
        },
    },
    AppEntry {
        name: "ocean-rowwise",
        family: Family::Paper,
        params: &[("n", 256, 64), ("iters", 6, 2)],
        make: |_, a| Ok(Arc::new(OceanRowwise::new(a.get(0)?, a.get(1)?))),
    },
    AppEntry {
        name: "ocean-original",
        family: Family::Paper,
        params: &[("n", 256, 64), ("iters", 6, 2)],
        make: |_, a| Ok(Arc::new(OceanOriginal::new(a.get(0)?, a.get(1)?))),
    },
    AppEntry {
        name: "fft",
        family: Family::Paper,
        params: &[("m", 128, 32)],
        make: |_, a| {
            let m: usize = a.get(0)?;
            require(m.is_power_of_two(), "m to be a power of two")?;
            Ok(Arc::new(Fft::new(m)))
        },
    },
    AppEntry {
        name: "water-nsquared",
        family: Family::Paper,
        params: &[("n", 512, 64), ("steps", 2, 1)],
        make: |_, a| Ok(Arc::new(WaterNsq::new(a.get(0)?, a.get(1)?))),
    },
    AppEntry {
        name: "volrend-rowwise",
        family: Family::Paper,
        params: &[("img", 96, 32)],
        make: |_, a| Ok(Arc::new(VolrendRowwise::new(a.get(0)?))),
    },
    AppEntry {
        name: "volrend-original",
        family: Family::Paper,
        params: &[("img", 96, 32)],
        make: |_, a| {
            let img: usize = a.get(0)?;
            require(img.is_multiple_of(4), "img to be a multiple of 4")?;
            Ok(Arc::new(VolrendOriginal::new(img)))
        },
    },
    AppEntry {
        name: "water-spatial",
        family: Family::Paper,
        params: &[("c", 4, 3), ("n", 512, 96), ("steps", 2, 1)],
        make: |_, a| {
            let (c, n, steps): (usize, usize, usize) = (a.get(0)?, a.get(1)?, a.get(2)?);
            let room = c
                .checked_pow(3)
                .and_then(|cells| cells.checked_mul(WaterSpatial::CELL_SLOTS));
            require(room.is_some_and(|room| n <= room), "n to fit the c^3 cells")?;
            Ok(Arc::new(WaterSpatial::new(c, n, steps)))
        },
    },
    AppEntry {
        name: "raytrace",
        family: Family::Paper,
        params: &[("img", 96, 32)],
        make: |_, a| {
            let img: usize = a.get(0)?;
            require(
                img.is_multiple_of(Raytrace::TILE),
                "img to be a multiple of the tile",
            )?;
            Ok(Arc::new(Raytrace::new(img)))
        },
    },
    AppEntry {
        name: "barnes-spatial",
        family: Family::Paper,
        params: &[("n", 1024, 128), ("steps", 2, 1)],
        make: |_, a| barnes(a, BarnesVariant::Spatial),
    },
    AppEntry {
        name: "barnes-partree",
        family: Family::Paper,
        params: &[("n", 1024, 128), ("steps", 2, 1)],
        make: |_, a| barnes(a, BarnesVariant::Partree),
    },
    AppEntry {
        name: "barnes-original",
        family: Family::Paper,
        params: &[("n", 1024, 128), ("steps", 2, 1)],
        make: |_, a| barnes(a, BarnesVariant::Original),
    },
    AppEntry {
        name: "kv-zipf",
        family: Family::Modern,
        params: &[
            ("keys", 2048, 256),
            ("ops", 48_000, 4_000),
            ("epochs", 6, 4),
            ("theta_x100", 99, 99),
            ("read_pct", 70, 70),
        ],
        make: |seed, a| {
            let (keys, ops, epochs) = (a.get(0)?, a.get(1)?, a.get(2)?);
            let kv = KvZipf::try_new(seed, keys, ops, epochs, a.get(3)?, a.get(4)?)?;
            Ok(Arc::new(kv))
        },
    },
    AppEntry {
        name: "pagerank",
        family: Family::Modern,
        params: &[("vertices", 768, 96), ("max_out", 8, 4), ("iters", 8, 3)],
        make: |seed, a| {
            let pr = PageRank::try_new(seed, a.get(0)?, a.get(1)?, a.get(2)?)?;
            Ok(Arc::new(pr))
        },
    },
    AppEntry {
        name: "random-drf",
        family: Family::Modern,
        params: &[("words", 256, 64), ("phases", 6, 3), ("locks", 4, 2)],
        make: |seed, a| {
            let drf = RandomDrf::try_new(seed, a.get(0)?, a.get(1)?, a.get(2)?)?;
            Ok(Arc::new(drf))
        },
    },
];

/// The names of `family`'s `N` applications, in table order.
const fn names<const N: usize>(family: Family) -> [&'static str; N] {
    let mut out = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < APPS.len() {
        if APPS[i].family as u8 == family as u8 {
            out[n] = APPS[i].name;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N, "the family has another number of applications");
    out
}

/// Names of all twelve applications, in the paper's presentation order.
pub fn all_app_names() -> [&'static str; 12] {
    const NAMES: [&str; 12] = names(Family::Paper);
    NAMES
}

/// Names of the modern workload families registered beside the paper's
/// twelve kernels (the scenario engine's native applications).
pub fn modern_app_names() -> [&'static str; 3] {
    const NAMES: [&str; 3] = names(Family::Modern);
    NAMES
}

/// Application `name` at `size` for `seed`, with `overrides` replacing
/// parameter defaults, first match wins. Every application takes overrides
/// of its shape parameters; only a modern workload reads the seed. An
/// unknown name or parameter, a value that does not fit its parameter's
/// type, or one outside the constructor's range (for a paper kernel: zero,
/// or a shape its constructor would assert on) is an error naming it.
pub fn build_app(
    name: &str,
    size: AppSize,
    seed: u64,
    overrides: &[(String, u64)],
) -> Result<Program, String> {
    let entry = APPS.iter().find(|a| a.name == name).ok_or_else(|| {
        let known: Vec<&str> = APPS.iter().map(|a| a.name).collect();
        format!(
            "unknown application {name:?} (one of: {})",
            known.join(", ")
        )
    })?;
    if let Some((k, _)) = overrides
        .iter()
        .find(|(k, _)| !entry.params.iter().any(|p| p.0 == k))
    {
        let known: Vec<&str> = entry.params.iter().map(|p| p.0).collect();
        return Err(format!(
            "app {name}: unknown parameter {k:?} (known: {})",
            known.join(", ")
        ));
    }
    let values: Vec<u64> = entry
        .params
        .iter()
        .map(|&(key, standard, small)| {
            let default = match size {
                AppSize::Standard => standard,
                AppSize::Small => small,
            };
            overrides
                .iter()
                .find(|(k, _)| k == key)
                .map_or(default, |&(_, v)| v)
        })
        .collect();
    if let (Family::Paper, Some(i)) = (entry.family, values.iter().position(|&v| v == 0)) {
        let key = entry.params[i].0;
        return Err(format!(
            "app {name}: parameter {key:?} = 0 must be at least 1"
        ));
    }
    let args = Args {
        params: entry.params,
        values: &values,
    };
    (entry.make)(seed, &args).map_err(|e| format!("app {name}: {e}"))
}

/// Construct an application at a given size class (a modern workload with
/// seed 1).
pub fn app_sized(name: &str, size: AppSize) -> Option<Program> {
    build_app(name, size, 1, &[]).ok()
}

/// Construct an application at the standard benchmark size.
pub fn app(name: &str) -> Option<Program> {
    app_sized(name, AppSize::Standard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::DsmProgram;

    #[test]
    fn every_name_constructs() {
        for name in all_app_names() {
            let a = app(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(a.name(), name);
            let b = app_sized(name, AppSize::Small).unwrap();
            assert_eq!(b.name(), name);
            assert!(b.shared_bytes() <= a.shared_bytes());
        }
    }

    #[test]
    fn a_paper_kernel_takes_shape_overrides_and_refuses_unknown_keys() {
        let lu = |overrides: &[(&str, u64)]| {
            let overrides: Vec<(String, u64)> =
                overrides.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            build_app("lu", AppSize::Standard, 1, &overrides)
        };
        let bytes = |p: Result<Program, String>| p.expect("builds").shared_bytes();
        // The override reaches the constructor; the defaults are unchanged.
        assert_eq!(bytes(lu(&[("n", 256)])), Lu::new(256, 16).shared_bytes());
        assert_eq!(bytes(lu(&[])), Lu::new(512, 16).shared_bytes());
        let err = |p: Result<Program, String>| p.err().expect("refused");
        assert_eq!(
            err(lu(&[("n", 256), ("q", 1)])),
            "app lu: unknown parameter \"q\" (known: n, b)"
        );
        // A shape the constructor would assert on is an error, not a panic.
        assert_eq!(
            err(lu(&[("b", 7)])),
            "app lu: the shape requires b to divide n"
        );
        assert_eq!(
            err(lu(&[("b", 0)])),
            "app lu: parameter \"b\" = 0 must be at least 1"
        );
        let fft = build_app("fft", AppSize::Small, 1, &[("m".to_string(), 48)]);
        assert_eq!(
            err(fft),
            "app fft: the shape requires m to be a power of two"
        );
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(app("mandelbrot").is_none());
    }

    #[test]
    fn modern_workloads_construct_at_both_sizes() {
        for name in modern_app_names() {
            let a = app(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(a.name(), name);
            let b = app_sized(name, AppSize::Small).unwrap();
            assert_eq!(b.name(), name);
            assert!(b.shared_bytes() <= a.shared_bytes());
            assert!(
                !a.regions().is_empty(),
                "{name} must declare RegionHints for the planner/checker"
            );
        }
    }
}
