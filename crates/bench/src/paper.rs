//! Reference values from the paper, for side-by-side comparison in the
//! report. Values come from the published text; entries that are
//! illegible in the available copy are `None`.

/// Paper §3 microbenchmark: message sizes and round-trip times (µs).
pub const PAPER_RTT_US: [(u64, u64); 5] = [(4, 40), (64, 61), (256, 100), (1024, 256), (4096, 876)];

/// Paper Table 1: benchmark, problem size, sequential execution time (s).
pub const PAPER_TABLE1: [(&str, &str, f64); 8] = [
    ("lu", "1024x1024", 73.41),
    ("fft", "1MB (65536 pts)", 27.257),
    ("ocean", "514x514", 37.43),
    ("water-nsquared", "4096 molecules, 3 steps", 575.283),
    ("volrend", "128^2 head-scaleddown2", 4.493),
    ("water-spatial", "4096 molecules, 5 steps", 898.454),
    ("raytrace", "balls4", 343.76),
    ("barnes", "16384 particles", 33.787),
];

/// One row of a paper fault-count table: counts at 64/256/1024/4096 bytes.
pub type FaultRow = [Option<u64>; 4];

/// A paper fault table: (read faults, write faults) per protocol
/// (SC, SW-LRC, HLRC order).
pub struct PaperFaults {
    /// Application name.
    pub app: &'static str,
    /// Paper table number.
    pub table: u32,
    /// Read fault rows per protocol.
    pub read: [FaultRow; 3],
    /// Write fault rows per protocol.
    pub write: [FaultRow; 3],
}

/// The legible fault tables from the paper (Tables 3–8; the remaining
/// tables are illegible in the available copy and compared by shape only).
pub const PAPER_FAULTS: [PaperFaults; 4] = [
    PaperFaults {
        app: "lu",
        table: 3,
        read: [
            [Some(24654), Some(6297), Some(1574), Some(393)],
            [Some(24655), Some(6297), Some(1574), Some(393)],
            [Some(24655), Some(6297), Some(1574), Some(393)],
        ],
        write: [[Some(0); 4], [Some(0); 4], [Some(0); 4]],
    },
    PaperFaults {
        app: "ocean-rowwise",
        table: 4,
        read: [
            [Some(21803), Some(6960), Some(2593), Some(3901)],
            [Some(5128), Some(1668), Some(781), None],
            [Some(5176), Some(1653), Some(759), None],
        ],
        write: [
            [Some(4237), Some(1232), Some(392), Some(187)],
            [Some(1542), Some(388), Some(194), None],
            [Some(1269), Some(368), Some(176), None],
        ],
    },
    PaperFaults {
        app: "ocean-original",
        table: 5,
        read: [
            [Some(92160), Some(27360), Some(11760), Some(7110)],
            [Some(27360), Some(11760), Some(7110), None],
            [Some(27360), Some(11760), Some(7110), None],
        ],
        write: [[Some(0); 4], [Some(0); 4], [Some(0); 4]],
    },
    PaperFaults {
        app: "volrend-rowwise",
        table: 8,
        read: [
            [Some(786), None, None, None],
            [Some(805), None, None, None],
            [Some(800), None, None, None],
        ],
        write: [
            [Some(45), None, None, None],
            [Some(50), None, None, None],
            [Some(33), None, None, None],
        ],
    },
];

/// Paper Table 16 (HM of relative efficiency, original applications).
/// Rows: SC, SW-LRC, HLRC; columns: 64, 256, 1024, 4096, g_best.
pub const PAPER_HM_ORIGINAL: [[Option<f64>; 5]; 3] = [
    [
        Some(0.753),
        Some(0.837),
        Some(0.717),
        Some(0.274),
        Some(0.955),
    ],
    [
        Some(0.400),
        Some(0.749),
        Some(0.293),
        Some(0.558),
        Some(0.861),
    ],
    [
        Some(0.388),
        Some(0.758),
        Some(0.903),
        Some(0.927),
        Some(0.956),
    ],
];

/// Paper Table 16 p_best row.
pub const PAPER_HM_ORIGINAL_PBEST: [Option<f64>; 5] = [
    Some(0.775),
    Some(0.895),
    Some(0.935),
    Some(0.539),
    Some(1.0),
];

/// Paper Table 17 qualitative headline claims (best-version comparison).
pub const PAPER_TABLE17_NOTES: &[&str] = &[
    "SC with best granularity:   HM = 0.955",
    "HLRC with best granularity: HM = 0.956",
    "best protocol at 256/1024/4096: HM = 0.895 / 0.935 / 0.930",
    "best fixed combination: HLRC @ 4096 (HM = 0.927)",
];

/// One row of paper Table 2: application, writers, access grain,
/// computation ms per synchronization, barriers, synchronization grain.
pub type Table2Row = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

/// Paper Table 2: classification of sharing patterns and synchronization
/// granularity, one row per application.
pub const PAPER_TABLE2: [Table2Row; 12] = [
    ("lu", "single", "coarse", "71.69", "64", "coarse"),
    ("ocean-rowwise", "single", "coarse", "9.88", "323", "coarse"),
    ("ocean-original", "single", "fine", "5.85", "328", "coarse"),
    ("fft", "single", "fine", "170.36", "10", "coarse"),
    (
        "water-nsquared",
        "multiple",
        "coarse",
        "59.93",
        "12",
        "fine",
    ),
    (
        "volrend-rowwise",
        "multiple",
        "fine",
        "17.55",
        "16",
        "coarse",
    ),
    (
        "volrend-original",
        "multiple",
        "fine",
        "17.55",
        "16",
        "coarse",
    ),
    (
        "water-spatial",
        "multiple",
        "fine",
        "1439.83",
        "18",
        "coarse",
    ),
    ("raytrace", "multiple", "fine", "100.87", "1", "coarse"),
    (
        "barnes-spatial",
        "multiple",
        "fine",
        "157.83",
        "12",
        "coarse",
    ),
    (
        "barnes-partree",
        "multiple",
        "fine",
        "73.93",
        "13",
        "coarse",
    ),
    (
        "barnes-original",
        "multiple",
        "fine",
        "0.12 (LRC)",
        "8",
        "fine",
    ),
];
