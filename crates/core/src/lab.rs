//! The virtual laboratory: every fixed piece of the paper's bench.

use htd_em::{AcquisitionParams, EmSetup, PowerSetup};
use htd_fabric::{Device, DeviceConfig, DieVariation, PowerGrid, Technology, VariationModel};

/// All fixed experimental parameters: the device family, technology,
/// process-variation statistics, power grid and measurement chains.
///
/// One `Lab` is shared by every design, die and measurement of an
/// experiment, exactly like the physical bench the paper keeps constant
/// while swapping FPGAs in the ZIF socket (Appendix B).
#[derive(Debug, Clone)]
pub struct Lab {
    /// The FPGA model programmed in every experiment.
    pub device: Device,
    /// Delay/charge parameters of the 65 nm process.
    pub tech: Technology,
    /// Process-variation statistics dies are fabricated with.
    pub variation: VariationModel,
    /// Power-distribution-network coupling model.
    pub power_grid: PowerGrid,
    /// The EM measurement chain.
    pub em: EmSetup,
    /// The global power measurement chain (baseline).
    pub power: PowerSetup,
    /// Clocking and averaging of one acquisition.
    pub acquisition: AcquisitionParams,
}

impl Lab {
    /// The paper's bench: scaled Virtex-5 LX30, 65 nm variations, RFU-5-2
    /// probe + 30 dB amplifier + 5 GS/s scope, 24 MHz clock, ×1000
    /// averaging.
    pub fn paper() -> Self {
        let device = Device::new(DeviceConfig::virtex5_lx30_scaled());
        Lab {
            device,
            tech: Technology::virtex5(),
            variation: VariationModel::nm65(),
            power_grid: PowerGrid::virtex5(),
            em: EmSetup::bench(device.center()),
            power: PowerSetup::bench(),
            acquisition: AcquisitionParams::paper_bench(),
        }
    }

    /// Fabricates a virtual die: one physical FPGA with its own process
    /// variations, fully determined by `seed`.
    pub fn fabricate_die(&self, seed: u64) -> DieVariation {
        DieVariation::generate(&self.variation, &self.device, seed)
    }

    /// Fabricates a batch of `n` dies (seeds `0..n`; the paper's batch
    /// is 8 FPGAs) on `workers` threads (`0` = auto, as in
    /// [`crate::Engine::with_workers`]).
    ///
    /// Each die is a pure function of its seed, so the batch is
    /// identical for every worker count — the large-`n` extension
    /// studies fabricate hundreds.
    pub fn fabricate_batch(&self, n: usize, workers: usize) -> Vec<DieVariation> {
        htd_par::parallel_map_indexed(workers, n, |s| self.fabricate_die(s as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lab_is_reproducible() {
        let a = Lab::paper();
        let b = Lab::paper();
        assert_eq!(a.device, b.device);
        let da = a.fabricate_die(3);
        let db = b.fabricate_die(3);
        assert_eq!(da.global_delay_factor(), db.global_delay_factor());
    }

    #[test]
    fn batch_has_distinct_dies() {
        let lab = Lab::paper();
        let batch = lab.fabricate_batch(8, 0);
        assert_eq!(batch.len(), 8);
        let g0 = batch[0].global_current_factor();
        assert!(batch[1..].iter().any(|d| d.global_current_factor() != g0));
    }

    #[test]
    fn batch_is_identical_at_every_worker_count() {
        let lab = Lab::paper();
        let serial = lab.fabricate_batch(8, 1);
        assert_eq!(serial, lab.fabricate_batch(8, 3));
        assert_eq!(serial[5], lab.fabricate_die(5));
    }
}
