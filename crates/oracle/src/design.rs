//! The event-level reference of one device's timed encryption: the
//! reference simulator plus the per-toggle activity conversion, which
//! `ProgrammedDevice`'s compiled, binned-in-replay acquisition is pinned
//! to bit for bit.

use htd_core::{Error, Lab, ProgrammedDevice};
use htd_em::CurrentEvent;

use crate::{collect_activity, EventSimulator};

/// [`ProgrammedDevice::timed_encryption_activity`] of `dev` (programmed
/// in `lab`) on the scalar reference path ([`EventSimulator`] +
/// [`collect_activity`]).
///
/// # Errors
///
/// Propagates netlist validation failures.
pub fn timed_encryption_activity_reference(
    lab: &Lab,
    dev: &ProgrammedDevice<'_>,
    pt: &[u8; 16],
    key: &[u8; 16],
) -> Result<Vec<CurrentEvent>, Error> {
    let aes = dev.design().aes();
    let netlist = aes.netlist();
    let mut fsim = netlist.simulator()?;
    fsim.set_bus_bytes(aes.plaintext(), pt);
    fsim.set_bus_bytes(aes.key(), key);
    fsim.set(aes.load(), true);
    fsim.settle();
    let mut esim = EventSimulator::from_snapshot(netlist, fsim.snapshot());
    esim.set_input(aes.load(), false);
    let period = lab.acquisition.clock_period_ps;
    let mut events = Vec::new();
    for cycle in 0..lab.acquisition.n_cycles {
        let run = esim.clock_cycle(dev.annotation());
        events.extend(collect_activity(
            &run,
            cycle as f64 * period,
            netlist,
            dev.design().placement(),
            dev.die(),
            &lab.tech,
        ));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_aes::structural::AesSim;
    use htd_core::em_detect::SideChannel;
    use htd_core::Design;
    use htd_trojan::TrojanSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lab() -> Lab {
        Lab::paper()
    }

    #[test]
    fn compiled_activity_path_matches_reference_bit_for_bit() {
        // The full fast path (compiled simulator + ActivityTable) must
        // reproduce the scalar reference (EventSimulator +
        // collect_activity) exactly — times, charges and positions to
        // the bit, in the same order — on both a golden and an infected
        // device (the trojan exercises coupling-perturbed delays).
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
        let die = lab.fabricate_die(5);
        let pt = [0x9Cu8; 16];
        let key = [0x3Eu8; 16];
        for design in [&golden, &infected] {
            let dev = ProgrammedDevice::new(&lab, design, &die);
            let fast = dev.timed_encryption_activity(&pt, &key).unwrap();
            let reference = timed_encryption_activity_reference(&lab, &dev, &pt, &key).unwrap();
            assert_eq!(fast.len(), reference.len());
            assert!(!fast.is_empty());
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(a.time_ps.to_bits(), b.time_ps.to_bits(), "event {i} time");
                assert_eq!(a.charge.to_bits(), b.charge.to_bits(), "event {i} charge");
                assert_eq!(a.position, b.position, "event {i} position");
            }
        }
    }

    #[test]
    fn cached_clean_signal_reproduces_the_event_level_chain_bit_for_bit() {
        // An acquisition through the convolved clean signal must equal the
        // full per-event chain (EmSetup::acquire / PowerSetup::acquire
        // over the reference activity) with the same derived RNG seed.
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(6);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0xD4u8; 16];
        let key = [0x71u8; 16];
        let events = timed_encryption_activity_reference(&lab, &dev, &pt, &key).unwrap();

        let mut rng = StdRng::seed_from_u64(11 ^ 0xE37A_11CE_55AA_0001);
        let want_em = lab.em.acquire(&events, &lab.acquisition, &mut rng);
        let got_em = dev.acquire_em_trace(&pt, &key, 11).unwrap();
        assert_eq!(want_em, got_em);

        let mut rng = StdRng::seed_from_u64(12 ^ 0x0F0F_5A5A_3C3C_0002);
        let want_power = lab.power.acquire(&events, &lab.acquisition, &mut rng);
        let got_power = dev
            .acquire_trace(SideChannel::Power, &pt, &key, 12)
            .unwrap();
        assert_eq!(want_power, got_power);
    }

    #[test]
    fn compiled_settle_times_match_reference_simulator() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(7);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0x42u8; 16];
        let key = [0x24u8; 16];
        // Reference: the original EventSimulator-based computation.
        let aes = golden.aes();
        let mut sim = AesSim::new(aes).unwrap();
        sim.start(&pt, &key);
        for _ in 0..8 {
            sim.step_round();
        }
        let mut esim = EventSimulator::from_snapshot(aes.netlist(), sim.simulator().snapshot());
        let run = esim.clock_cycle(dev.annotation());
        let want: Vec<Option<f64>> = aes
            .state_d()
            .iter()
            .map(|&d| run.arrival_at_sinks_ps(d, dev.annotation()))
            .collect();
        let got = dev.round10_settle_times(&pt, &key).unwrap();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
