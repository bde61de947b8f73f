//! Machine and platform configuration.
//!
//! Encodes the paper's configuration tables as typed presets:
//!
//! * **Table 1** — the two reference machine pairs used for validation
//!   (small\_Arm/small\_x86 and big\_Arm/big\_x86),
//! * **Table 2** — the per-core memory-operation latencies used by the
//!   Stramash-QEMU cache plugin,
//! * **Figure 3** — the three hardware memory models (*Separated*,
//!   *Shared*, *Fully Shared*),
//! * **§7.3** — the CXL snoop overheads (Snoop-Invalidate, Snoop-Data,
//!   Back-Invalidate) and the artifact's local/remote memory overhead
//!   constants (360/660, ratio 0.455).

use crate::time::Cycles;
use std::fmt;

/// Memory-operation latencies in cycles, one row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyTable {
    /// L1 hit latency.
    pub l1: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// L3 hit latency.
    pub l3: u32,
    /// Local main-memory latency.
    pub mem: u32,
    /// Remote memory latency over the coherent interconnect (CXL).
    pub remote_mem: u32,
}

impl LatencyTable {
    /// Table 2, Cortex-A72 row (the small\_Arm smartNIC cores). The A72's
    /// L3 latency is unspecified in the paper ("\*"); we use the
    /// ThunderX2's 30 cycles as the nearest Arm data point.
    pub const CORTEX_A72: LatencyTable =
        LatencyTable { l1: 4, l2: 9, l3: 30, mem: 300, remote_mem: 780 };

    /// Table 2, ThunderX2 row (big\_Arm).
    pub const THUNDER_X2: LatencyTable =
        LatencyTable { l1: 4, l2: 9, l3: 30, mem: 300, remote_mem: 620 };

    /// Table 2, Xeon E5-2620 row (small\_x86).
    pub const E5_2620: LatencyTable =
        LatencyTable { l1: 4, l2: 12, l3: 38, mem: 300, remote_mem: 640 };

    /// Table 2, Xeon Gold row (big\_x86).
    pub const XEON_GOLD: LatencyTable =
        LatencyTable { l1: 4, l2: 14, l3: 50, mem: 300, remote_mem: 640 };
}

/// Geometry of one cache level.
///
/// ```
/// use stramash_sim::CacheGeometry;
/// let l3 = CacheGeometry::new(4 << 20, 16, 64);
/// assert_eq!(l3.sets(), 4096);
/// assert_eq!(l3.lines(), 65536);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
}

/// Widest cache associativity the simulator models: each set's LRU
/// order is one packed permutation of 4-bit way indices in a `u64`.
/// Every Table 1 cache is 8- or 16-way.
pub const MAX_CACHE_WAYS: u32 = 16;

impl CacheGeometry {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not powers of two or do not divide
    /// evenly into whole sets — the same constraint the QEMU cache plugin
    /// imposes.
    #[must_use]
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        let geo = CacheGeometry { size_bytes, ways, line_bytes };
        assert!(geo.is_valid(), "invalid cache geometry: {geo:?}");
        geo
    }

    /// Whether the geometry is internally consistent: power-of-two line
    /// size, at least one way, whole sets, and a power-of-two set count
    /// (the cache indexes sets with a mask, never a modulo). The total
    /// capacity itself need not be a power of two — e.g. a 48 KB 12-way
    /// L1 has 64 sets and is perfectly valid.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.line_bytes.is_power_of_two()
            && self.ways > 0
            && self.size_bytes.is_multiple_of(self.line_bytes as u64 * self.ways as u64)
            && self.sets().is_power_of_two()
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes as u64 * self.ways as u64)
    }

    /// Total number of lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }

    /// log2 of the line size, for tag extraction.
    #[must_use]
    pub fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }
}

/// The three-level cache configuration of one domain (§7.3: the extended
/// QEMU cache plugin models split L1 I/D plus unified L2 and L3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// L1 instruction cache.
    pub l1i: CacheGeometry,
    /// L1 data cache.
    pub l1d: CacheGeometry,
    /// Unified L2.
    pub l2: CacheGeometry,
    /// Unified last-level cache.
    pub l3: CacheGeometry,
}

impl CacheConfig {
    /// The default configuration used by the paper's main experiments:
    /// 32 KB L1I/L1D, 1 MB L2 and a 4 MB L3 per QEMU instance (§9.2.2
    /// states "each QEMU instance has 4 MB of L3 cache").
    #[must_use]
    pub fn paper_default() -> Self {
        CacheConfig {
            l1i: CacheGeometry::new(32 << 10, 8, 64),
            l1d: CacheGeometry::new(32 << 10, 8, 64),
            l2: CacheGeometry::new(1 << 20, 16, 64),
            l3: CacheGeometry::new(4 << 20, 16, 64),
        }
    }

    /// Returns a copy with the L3 capacity replaced.
    #[must_use]
    pub fn with_l3_size(mut self, size_bytes: u64) -> Self {
        self.l3 = CacheGeometry::new(size_bytes, self.l3.ways, self.l3.line_bytes);
        self
    }

    /// All levels share one line size; returns it.
    ///
    /// # Panics
    ///
    /// Panics if levels disagree on the line size.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        let lb = self.l1d.line_bytes;
        assert!(
            self.l1i.line_bytes == lb && self.l2.line_bytes == lb && self.l3.line_bytes == lb,
            "cache levels must share one line size"
        );
        lb
    }
}

/// Per-domain machine description (one half of a Table 1 pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainConfig {
    /// Human-readable machine name (e.g. "big_x86 (Xeon Gold 6230R)").
    pub name: String,
    /// Core clock frequency in Hz.
    pub freq_hz: u64,
    /// Memory latency row (Table 2).
    pub latency: LatencyTable,
    /// Cache hierarchy geometry.
    pub cache: CacheConfig,
}

impl DomainConfig {
    /// big\_x86: dual Xeon Gold 6230R at 2.1 GHz (Table 1).
    #[must_use]
    pub fn big_x86() -> Self {
        DomainConfig {
            name: "big_x86 (Xeon Gold 6230R)".to_string(),
            freq_hz: 2_100_000_000,
            latency: LatencyTable::XEON_GOLD,
            cache: CacheConfig::paper_default(),
        }
    }

    /// big\_Arm: dual Cavium ThunderX2 CN9980 at 2.0 GHz (Table 1).
    #[must_use]
    pub fn big_arm() -> Self {
        DomainConfig {
            name: "big_Arm (ThunderX2 CN9980)".to_string(),
            freq_hz: 2_000_000_000,
            latency: LatencyTable::THUNDER_X2,
            cache: CacheConfig::paper_default(),
        }
    }

    /// small\_x86: Xeon E5-2620 v4 at 2.1 GHz (Table 1).
    #[must_use]
    pub fn small_x86() -> Self {
        DomainConfig {
            name: "small_x86 (Xeon E5-2620 v4)".to_string(),
            freq_hz: 2_100_000_000,
            latency: LatencyTable::E5_2620,
            cache: CacheConfig::paper_default(),
        }
    }

    /// small\_Arm: Broadcom Armv8 A72 smartNIC at 3.0 GHz (Table 1).
    #[must_use]
    pub fn small_arm() -> Self {
        DomainConfig {
            name: "small_Arm (Broadcom A72 smartNIC)".to_string(),
            freq_hz: 3_000_000_000,
            latency: LatencyTable::CORTEX_A72,
            cache: CacheConfig::paper_default(),
        }
    }
}

/// The three memory hardware configurations of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareModel {
    /// Each CPU group has its own memory; coherence managed at the LLC,
    /// like NUMA. Remote accesses pay the CXL/interconnect latency.
    Separated,
    /// Each group has private memory plus a cache-coherent shared memory
    /// pool remote to both (like CXL 3.0).
    Shared,
    /// One single shared memory local to all processors (like OpenPiton).
    FullyShared,
}

impl HardwareModel {
    /// All three models, in the order the paper's figures list them.
    pub const ALL: [HardwareModel; 3] =
        [HardwareModel::Separated, HardwareModel::Shared, HardwareModel::FullyShared];
}

impl fmt::Display for HardwareModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareModel::Separated => f.write_str("Separated"),
            HardwareModel::Shared => f.write_str("Shared"),
            HardwareModel::FullyShared => f.write_str("Fully Shared"),
        }
    }
}

/// The coherent interconnect joining the CPU groups. §8.1: "The
/// Separated model could be configured as NUMA or CXL; currently, we use
/// the CXL snooping overhead … but it can be set with the cost of Intel
/// QPI or AMD Infinity Fabric".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// CXL 3.0-style coherence (the paper's default).
    Cxl,
    /// Intel QuickPath-style NUMA interconnect.
    Qpi,
    /// AMD Infinity-Fabric-style interconnect.
    InfinityFabric,
}

impl Interconnect {
    /// Snoop costs for this interconnect.
    #[must_use]
    pub fn snoop_costs(self) -> CxlCosts {
        match self {
            Interconnect::Cxl => CxlCosts::paper_default(),
            // On-package NUMA links snoop faster than CXL.
            Interconnect::Qpi => CxlCosts {
                snoop_invalidate: 50,
                snoop_data: 45,
                back_invalidate: 40,
                onchip_snoop: 25,
            },
            Interconnect::InfinityFabric => CxlCosts {
                snoop_invalidate: 60,
                snoop_data: 55,
                back_invalidate: 45,
                onchip_snoop: 25,
            },
        }
    }

    /// Remote-memory latency in cycles for this interconnect (CXL keeps
    /// each machine's Table 2 value; NUMA links are faster).
    #[must_use]
    pub fn remote_mem_latency(self, table_remote: u32) -> u32 {
        match self {
            Interconnect::Cxl => table_remote,
            Interconnect::Qpi => 450,
            Interconnect::InfinityFabric => 490,
        }
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interconnect::Cxl => f.write_str("CXL"),
            Interconnect::Qpi => f.write_str("QPI"),
            Interconnect::InfinityFabric => f.write_str("Infinity Fabric"),
        }
    }
}

/// CXL coherence message overheads in cycles (§7.3 "CXL Access Overhead
/// Feedback").
///
/// The plugin models the delays of SNOOP messages and responses that keep
/// replicas coherent between the heterogeneous processors' caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CxlCosts {
    /// "Snoop Invalidate": a writer forces every other processor to drop
    /// the line.
    pub snoop_invalidate: u32,
    /// "Snoop Data": a reader demotes a remote Exclusive/Modified copy to
    /// Shared and sources the data.
    pub snoop_data: u32,
    /// "Back-Invalidate Snoop": an inclusive-LLC eviction forces upper
    /// levels (and remote sharers) to drop the line.
    pub back_invalidate: u32,
    /// On-chip snoop between the domains' private L1/L2 when they share
    /// one LLC (the *Fully Shared* model's single shared cache, §8.1) —
    /// far cheaper than a CXL snoop.
    pub onchip_snoop: u32,
}

impl CxlCosts {
    /// Default snoop costs, on the order of a fraction of the
    /// local-vs-remote memory differential reported for CXL [Sharma,
    /// IEEE Micro 2023], which the paper cites for its latencies.
    #[must_use]
    pub fn paper_default() -> Self {
        CxlCosts { snoop_invalidate: 90, snoop_data: 80, back_invalidate: 60, onchip_snoop: 25 }
    }
}

/// Full platform configuration for one simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Per-domain machine descriptions, indexed by [`crate::DomainId`].
    pub domains: [DomainConfig; crate::NUM_DOMAINS],
    /// The Figure 3 hardware memory model to simulate.
    pub hw_model: HardwareModel,
    /// Cross-ISA IPI latency (defaults to the measured 2 µs of §9.1.1).
    pub ipi_latency: Cycles,
    /// TCP message round-trip latency for the Popcorn-TCP baseline
    /// (defaults to the 75 µs of §8.2).
    pub tcp_rtt: Cycles,
    /// CXL snoop overheads.
    pub cxl: CxlCosts,
}

impl SimConfig {
    /// The big machine pair (Xeon Gold + ThunderX2) — the configuration
    /// of the paper's main evaluation (§8).
    #[must_use]
    pub fn big_pair() -> Self {
        let x86 = DomainConfig::big_x86();
        let ipi = Cycles::from_micros(2.0, x86.freq_hz);
        let tcp = Cycles::from_micros(75.0, x86.freq_hz);
        SimConfig {
            domains: [x86, DomainConfig::big_arm()],
            hw_model: HardwareModel::Shared,
            ipi_latency: ipi,
            tcp_rtt: tcp,
            cxl: CxlCosts::paper_default(),
        }
    }

    /// The small machine pair (E5-2620 + A72 smartNIC) used for icount
    /// validation (§9.1.2).
    #[must_use]
    pub fn small_pair() -> Self {
        let x86 = DomainConfig::small_x86();
        let ipi = Cycles::from_micros(2.0, x86.freq_hz);
        let tcp = Cycles::from_micros(75.0, x86.freq_hz);
        SimConfig {
            domains: [x86, DomainConfig::small_arm()],
            hw_model: HardwareModel::Shared,
            ipi_latency: ipi,
            tcp_rtt: tcp,
            cxl: CxlCosts::paper_default(),
        }
    }

    /// Returns a copy with a different hardware model.
    #[must_use]
    pub fn with_hw_model(mut self, model: HardwareModel) -> Self {
        self.hw_model = model;
        self
    }

    /// Reconfigures the coherent interconnect (§8.1's NUMA-vs-CXL
    /// option): swaps the snoop costs and remote-memory latencies.
    #[must_use]
    pub fn with_interconnect(mut self, ic: Interconnect) -> Self {
        self.cxl = ic.snoop_costs();
        for d in &mut self.domains {
            d.latency.remote_mem = ic.remote_mem_latency(d.latency.remote_mem);
        }
        self
    }

    /// Returns a copy with both domains' L3 capacity replaced (used by
    /// the §9.2.2 cache-size sensitivity study).
    #[must_use]
    pub fn with_l3_size(mut self, size_bytes: u64) -> Self {
        for d in &mut self.domains {
            d.cache = d.cache.with_l3_size(size_bytes);
        }
        self
    }

    /// The configuration of `domain`.
    #[must_use]
    pub fn domain(&self, domain: crate::DomainId) -> &DomainConfig {
        &self.domains[domain.index()]
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found: invalid
    /// cache geometry, mismatched line sizes, or a zero frequency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for d in &self.domains {
            if d.freq_hz == 0 {
                return Err(ConfigError::ZeroFrequency(d.name.clone()));
            }
            for (lvl, geo) in
                [("L1I", d.cache.l1i), ("L1D", d.cache.l1d), ("L2", d.cache.l2), ("L3", d.cache.l3)]
            {
                // A geometry that is sound except for its set count gets
                // the specific error: the caches index sets with a
                // power-of-two mask, so a non-power-of-two count is
                // unsupported.
                if geo.line_bytes.is_power_of_two()
                    && geo.ways > 0
                    && geo.size_bytes.is_multiple_of(geo.line_bytes as u64 * geo.ways as u64)
                    && !geo.sets().is_power_of_two()
                {
                    return Err(ConfigError::NonPowerOfTwoSets {
                        machine: d.name.clone(),
                        level: lvl,
                        sets: geo.sets(),
                    });
                }
                if !geo.is_valid() {
                    return Err(ConfigError::InvalidCache { machine: d.name.clone(), level: lvl });
                }
                // The caches order each set's LRU in one packed 16-nibble
                // permutation; no modelled hardware is wider.
                if geo.ways > MAX_CACHE_WAYS {
                    return Err(ConfigError::TooManyWays {
                        machine: d.name.clone(),
                        level: lvl,
                        ways: geo.ways,
                    });
                }
            }
            let lb = d.cache.l1d.line_bytes;
            if d.cache.l1i.line_bytes != lb
                || d.cache.l2.line_bytes != lb
                || d.cache.l3.line_bytes != lb
            {
                return Err(ConfigError::MismatchedLineSize(d.name.clone()));
            }
        }
        if self.domains[0].cache.line_bytes() != self.domains[1].cache.line_bytes() {
            return Err(ConfigError::MismatchedLineSize("cross-domain".to_string()));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::big_pair()
    }
}

/// Error returned by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A domain's clock frequency is zero.
    ZeroFrequency(String),
    /// A cache level has an inconsistent geometry.
    InvalidCache {
        /// The machine whose cache is invalid.
        machine: String,
        /// Which level is invalid.
        level: &'static str,
    },
    /// Cache levels or domains disagree on the line size.
    MismatchedLineSize(String),
    /// A cache level has a non-power-of-two number of sets, which the
    /// mask-indexed set lookup cannot support.
    NonPowerOfTwoSets {
        /// The machine whose cache is invalid.
        machine: String,
        /// Which level is invalid.
        level: &'static str,
        /// The offending set count.
        sets: u64,
    },
    /// A cache level is wider than [`MAX_CACHE_WAYS`], which the packed
    /// per-set LRU order cannot represent.
    TooManyWays {
        /// The machine whose cache is invalid.
        machine: String,
        /// Which level is invalid.
        level: &'static str,
        /// The offending associativity.
        ways: u32,
    },
    /// The physical layout spans too many cache lines for the 32-bit
    /// cache tags: every line number must sit below `u32::MAX`, the
    /// empty-way tag.
    TooManyLines {
        /// The layout's span in cache lines.
        lines: u64,
    },
    /// The global allocator's block size is not a power of two in
    /// 32 MB – 4 GB, or is larger than the shared pool.
    PoolBlockSize {
        /// The requested block size in bytes.
        block_size: u64,
        /// The pool's size in bytes.
        pool_bytes: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroFrequency(m) => write!(f, "machine {m} has zero clock frequency"),
            ConfigError::InvalidCache { machine, level } => {
                write!(f, "machine {machine} has an invalid {level} geometry")
            }
            ConfigError::MismatchedLineSize(m) => {
                write!(f, "cache line sizes disagree for {m}")
            }
            ConfigError::NonPowerOfTwoSets { machine, level, sets } => {
                write!(
                    f,
                    "machine {machine} {level} has {sets} sets; set counts must be a power of two"
                )
            }
            ConfigError::TooManyWays { machine, level, ways } => {
                write!(
                    f,
                    "machine {machine} {level} is {ways}-way; at most {MAX_CACHE_WAYS} ways are supported"
                )
            }
            ConfigError::TooManyLines { lines } => {
                write!(
                    f,
                    "physical layout spans {lines} cache lines; 32-bit cache tags name fewer than {}",
                    u32::MAX
                )
            }
            ConfigError::PoolBlockSize { block_size, pool_bytes } => {
                write!(
                    f,
                    "global allocator block size {block_size} is not a power of two in \
                     32 MB – 4 GB that fits the {pool_bytes}-byte pool"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainId;

    #[test]
    fn table2_rows_match_paper() {
        assert_eq!(LatencyTable::XEON_GOLD.l2, 14);
        assert_eq!(LatencyTable::XEON_GOLD.l3, 50);
        assert_eq!(LatencyTable::THUNDER_X2.remote_mem, 620);
        assert_eq!(LatencyTable::E5_2620.l2, 12);
        assert_eq!(LatencyTable::CORTEX_A72.remote_mem, 780);
        for t in [
            LatencyTable::XEON_GOLD,
            LatencyTable::THUNDER_X2,
            LatencyTable::E5_2620,
            LatencyTable::CORTEX_A72,
        ] {
            assert_eq!(t.l1, 4);
            assert_eq!(t.mem, 300);
        }
    }

    #[test]
    fn cache_geometry_sets_and_lines() {
        let g = CacheGeometry::new(32 << 10, 8, 64);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.line_shift(), 6);
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn cache_geometry_rejects_non_power_of_two() {
        let _ = CacheGeometry::new(3000, 8, 64);
    }

    #[test]
    fn paper_default_caches() {
        let c = CacheConfig::paper_default();
        assert_eq!(c.l3.size_bytes, 4 << 20);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn with_l3_size_changes_only_l3() {
        let c = CacheConfig::paper_default().with_l3_size(8 << 20);
        assert_eq!(c.l3.size_bytes, 8 << 20);
        assert_eq!(c.l2.size_bytes, 1 << 20);
    }

    #[test]
    fn presets_validate() {
        assert!(SimConfig::big_pair().validate().is_ok());
        assert!(SimConfig::small_pair().validate().is_ok());
    }

    #[test]
    fn big_pair_latencies_and_ipi() {
        let cfg = SimConfig::big_pair();
        assert_eq!(cfg.domain(DomainId::X86).latency, LatencyTable::XEON_GOLD);
        assert_eq!(cfg.domain(DomainId::ARM).latency, LatencyTable::THUNDER_X2);
        assert_eq!(cfg.ipi_latency.raw(), 4200); // 2 µs at 2.1 GHz
        assert_eq!(cfg.tcp_rtt.raw(), 157_500); // 75 µs at 2.1 GHz
    }

    #[test]
    fn validate_rejects_zero_frequency() {
        let mut cfg = SimConfig::big_pair();
        cfg.domains[0].freq_hz = 0;
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroFrequency(_))));
    }

    #[test]
    fn validate_rejects_mismatched_line_size() {
        let mut cfg = SimConfig::big_pair();
        cfg.domains[1].cache.l2 = CacheGeometry::new(1 << 20, 16, 128);
        assert!(matches!(cfg.validate(), Err(ConfigError::MismatchedLineSize(_))));
    }

    #[test]
    fn interconnect_presets() {
        // §8.1: the Separated model's coherence cost is configurable.
        let cxl = SimConfig::big_pair();
        let qpi = SimConfig::big_pair().with_interconnect(Interconnect::Qpi);
        assert!(qpi.cxl.snoop_invalidate < cxl.cxl.snoop_invalidate);
        assert!(
            qpi.domain(DomainId::X86).latency.remote_mem
                < cxl.domain(DomainId::X86).latency.remote_mem
        );
        let fabric = SimConfig::big_pair().with_interconnect(Interconnect::InfinityFabric);
        assert!(fabric.validate().is_ok());
        assert_eq!(Interconnect::Cxl.to_string(), "CXL");
        assert_eq!(Interconnect::Qpi.to_string(), "QPI");
        assert_eq!(Interconnect::InfinityFabric.to_string(), "Infinity Fabric");
        // CXL keeps Table 2's remote latencies untouched.
        assert_eq!(
            SimConfig::big_pair().with_interconnect(Interconnect::Cxl),
            SimConfig::big_pair()
        );
    }

    #[test]
    fn hardware_model_display() {
        assert_eq!(HardwareModel::Separated.to_string(), "Separated");
        assert_eq!(HardwareModel::FullyShared.to_string(), "Fully Shared");
        assert_eq!(HardwareModel::ALL.len(), 3);
    }

    #[test]
    fn config_error_display_nonempty() {
        let e = ConfigError::InvalidCache { machine: "m".into(), level: "L2" };
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn validate_rejects_non_power_of_two_sets_with_typed_error() {
        let mut cfg = SimConfig::big_pair();
        // 192 KB, 2-way, 64 B lines → 1536 sets: every field is sound
        // except the set count, so the specific error must fire.
        cfg.domains[0].cache.l2 = CacheGeometry { size_bytes: 192 << 10, ways: 2, line_bytes: 64 };
        match cfg.validate() {
            Err(ConfigError::NonPowerOfTwoSets { level, sets, .. }) => {
                assert_eq!(level, "L2");
                assert_eq!(sets, 1536);
            }
            other => panic!("expected NonPowerOfTwoSets, got {other:?}"),
        }
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(msg.contains("1536"), "error must name the offending count: {msg}");
    }

    #[test]
    fn validate_rejects_caches_wider_than_sixteen_ways_with_typed_error() {
        let mut cfg = SimConfig::big_pair();
        // 2 MB, 32-way, 64 B lines → 1024 sets: a sound geometry, but
        // wider than the packed LRU order can hold.
        cfg.domains[1].cache.l3 = CacheGeometry::new(2 << 20, 32, 64);
        match cfg.validate() {
            Err(ConfigError::TooManyWays { level, ways, .. }) => {
                assert_eq!(level, "L3");
                assert_eq!(ways, 32);
            }
            other => panic!("expected TooManyWays, got {other:?}"),
        }
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(msg.contains("32-way"), "error must name the offending width: {msg}");
        cfg.domains[1].cache.l3 = CacheGeometry::new(2 << 20, MAX_CACHE_WAYS, 64);
        assert_eq!(cfg.validate(), Ok(()), "exactly {MAX_CACHE_WAYS} ways is supported");
    }

    #[test]
    fn non_power_of_two_capacity_with_power_of_two_sets_is_valid() {
        // A 48 KB 12-way L1 (64 sets) — real Golden Cove geometry.
        let g = CacheGeometry::new(48 << 10, 12, 64);
        assert_eq!(g.sets(), 64);
        let mut cfg = SimConfig::big_pair();
        cfg.domains[0].cache.l1d = g;
        assert!(cfg.validate().is_ok());
    }
}
