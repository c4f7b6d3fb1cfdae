//! Experiment configuration — every knob the paper turns.

use osiris_atm::sar::ReassemblyMode;
use osiris_atm::stripe::SkewConfig;
use osiris_board::dma::DmaMode;
use osiris_board::interrupt::InterruptPolicy;
use osiris_host::driver::CacheStrategy;
use osiris_host::machine::MachineSpec;
use osiris_host::wiring::WiringMode;
use osiris_proto::stack::{CcScheme, TransportMode};
use osiris_proto::wire::IP_HEADER_BYTES;
use osiris_sim::{SimConfig, SimDuration};

/// Which protocol layer the test programs sit on (§4: the "ATM" rows talk
/// straight to the driver; the "UDP/IP" rows run the full stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Test programs configured directly on top of the OSIRIS driver.
    RawAtm,
    /// Test programs on top of the UDP/IP stack.
    UdpIp,
}

/// Where the application lives relative to the kernel (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// Test programs linked into the kernel (the paper's §4 baseline).
    Kernel,
    /// A user process going through the kernel: two domain crossings per
    /// message on the data path.
    UserViaKernel,
    /// A user process with an application device channel: direct queue
    /// access, no crossings on the data path.
    Adc,
}

/// Whether the application touches message data (per-message CPU cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchMode {
    /// Reuse a prepared buffer (steady-state throughput tests).
    None,
    /// Write the message contents before each send (latency test
    /// programs construct each message; on the 5000/200 every word is
    /// write-through bus traffic).
    WritePerMessage,
}

/// Full testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Machine model for every host in the testbed.
    pub machine: MachineSpec,
    /// Protocol layer.
    pub layer: Layer,
    /// Application message size in bytes.
    pub msg_size: u64,
    /// Messages to exchange (pings for latency, stream length for
    /// throughput).
    pub messages: u64,
    /// Deliveries discarded before the throughput window opens.
    pub warmup: u64,
    /// DMA transfer-length rule, transmit direction.
    pub tx_dma: DmaMode,
    /// DMA transfer-length rule, receive direction.
    pub rx_dma: DmaMode,
    /// Cache strategy in the receive driver (§2.3).
    pub cache_strategy: CacheStrategy,
    /// Page-wiring service (§2.4).
    pub wiring: WiringMode,
    /// Receive interrupt policy (§2.1.2).
    pub interrupt_policy: InterruptPolicy,
    /// Reassembly strategy (§2.6).
    pub reassembly: ReassemblyMode,
    /// Link skew and fault injection.
    pub skew: SkewConfig,
    /// UDP data checksumming.
    pub udp_checksum: bool,
    /// IP MTU (fragment size including the IP header).
    pub mtu: u32,
    /// Receive buffer size the driver provisions.
    pub buffer_bytes: u32,
    /// Number of receive buffers provisioned per host (must not exceed
    /// the 63-entry free ring).
    pub rx_buffers: usize,
    /// Application placement.
    pub data_path: DataPath,
    /// Route the pair's cells through the AURORA switch model instead of
    /// back-to-back links (ablation; incast/fan-out scenarios always
    /// use the switch).
    pub switched_fabric: bool,
    /// Experiment seed (frame-allocator fragmentation, skew jitter).
    pub seed: u64,
    /// Verify delivered payloads against the sent pattern.
    pub verify_data: bool,
    /// Application data-touch behaviour.
    pub touch: TouchMode,
    /// Byte offset of message data within its first page. §2.2: "the data
    /// portion is typically not aligned with page boundaries", so an
    /// n-page payload usually occupies n+1 physical buffers plus one for
    /// the header.
    pub data_offset: u64,
    /// Opt-in reliable mode on the UDP/IP layer: datagrams are held,
    /// acked by the receiver, and retransmitted with exponential backoff
    /// until acknowledged (loss-sweep experiments; the paper's stack is
    /// plain UDP, so this defaults off).
    pub reliable: bool,
    /// Reliable-mode transport discipline: windowed selective repeat with
    /// block acks (the default — stop-and-wait collapses at incast
    /// scale), or the per-datagram stop-and-wait baseline.
    pub transport: TransportMode,
    /// Congestion control layered on the selective-repeat window.
    pub cc: CcScheme,
    /// Selective-repeat window: datagrams in flight per destination
    /// (clamped to 64, the block-ack bitmap width).
    pub window: u32,
    /// Deliveries coalesced per block ack (1 = ack every datagram).
    pub ack_every: u32,
    /// Switch output-queue depth (cells) above which departing cells are
    /// ECN-marked (`None` = never mark; the ECN scheme needs it set).
    pub ecn_threshold_cells: Option<u32>,
    /// Per-VCI reassembly timeout on the receive board: a partial PDU
    /// whose first cell is older than this is reaped, its physical
    /// buffers reclaimed, and the VCI unwedged (`None` = never, the
    /// paper's behaviour).
    pub reassembly_timeout: Option<SimDuration>,
    /// Simulation-kernel settings: timeline and series sizing, sampling
    /// period and fault plan.
    pub sim: SimConfig,
}

impl TestbedConfig {
    /// The paper's §4 baseline on a DECstation 5000/200 pair: UDP/IP,
    /// 16 KB page-aligned MTU, checksum off, single-cell DMA, lazy cache
    /// invalidation, transition interrupts, no skew, kernel test programs.
    pub fn ds5000_200_udp() -> Self {
        TestbedConfig {
            machine: MachineSpec::ds5000_200(),
            layer: Layer::UdpIp,
            msg_size: 1024,
            messages: 16,
            warmup: 2,
            tx_dma: DmaMode::SingleCell,
            rx_dma: DmaMode::SingleCell,
            cache_strategy: CacheStrategy::Lazy,
            wiring: WiringMode::LowLevel,
            interrupt_policy: InterruptPolicy::OnTransition,
            reassembly: ReassemblyMode::InOrder,
            skew: SkewConfig::none(),
            udp_checksum: false,
            // 16 KB of data per fragment: page-aligned rule (§2.2).
            mtu: 16 * 1024 + IP_HEADER_BYTES as u32,
            // "16 KB buffers", with one extra cache line so a fragment
            // (data + headers) fits a single buffer; see DESIGN.md.
            buffer_bytes: 16 * 1024 + 64,
            rx_buffers: 48,
            data_path: DataPath::Kernel,
            switched_fabric: false,
            seed: 42,
            verify_data: true,
            touch: TouchMode::None,
            data_offset: 2048,
            reliable: false,
            transport: TransportMode::SelectiveRepeat,
            cc: CcScheme::None,
            window: 16,
            ack_every: 1,
            ecn_threshold_cells: None,
            reassembly_timeout: None,
            sim: SimConfig::default(),
        }
    }

    /// The same baseline on the raw-ATM layer (Table 1's "ATM" rows).
    pub fn ds5000_200_atm() -> Self {
        TestbedConfig {
            layer: Layer::RawAtm,
            ..Self::ds5000_200_udp()
        }
    }

    /// The DEC 3000/600 baseline: coherent cache, crossbar memory.
    pub fn dec3000_600_udp() -> Self {
        TestbedConfig {
            machine: MachineSpec::dec3000_600(),
            cache_strategy: CacheStrategy::HardwareCoherent,
            ..Self::ds5000_200_udp()
        }
    }

    /// DEC 3000/600 on the raw-ATM layer.
    pub fn dec3000_600_atm() -> Self {
        TestbedConfig {
            layer: Layer::RawAtm,
            ..Self::dec3000_600_udp()
        }
    }

    /// Cells per message at the configured sizes (diagnostic).
    pub fn cells_per_message(&self) -> u64 {
        let overhead = match self.layer {
            Layer::RawAtm => 0,
            Layer::UdpIp => 36, // UDP + one IP header for small messages
        };
        (self.msg_size + overhead).div_ceil(44)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_they_should() {
        let ds = TestbedConfig::ds5000_200_udp();
        let ax = TestbedConfig::dec3000_600_udp();
        assert_eq!(ds.machine.name, "DEC 5000/200");
        assert_eq!(ax.machine.name, "DEC 3000/600");
        assert_eq!(ds.cache_strategy, CacheStrategy::Lazy);
        assert_eq!(ax.cache_strategy, CacheStrategy::HardwareCoherent);
        assert_eq!(TestbedConfig::ds5000_200_atm().layer, Layer::RawAtm);
    }

    #[test]
    fn mtu_is_page_aligned() {
        let cfg = TestbedConfig::ds5000_200_udp();
        assert_eq!((cfg.mtu as usize - IP_HEADER_BYTES) % 4096, 0);
    }

    #[test]
    fn rx_buffers_fit_the_free_ring() {
        let cfg = TestbedConfig::ds5000_200_udp();
        assert!(cfg.rx_buffers as u32 <= 63);
    }
}
